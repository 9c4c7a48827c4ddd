"""The dcpibench harness: discovery, JSON results, and regression gate."""

import copy
import json
import os

import pytest

from repro.tools.benchrunner import (compare_results, default_bench_dir,
                                     discover_benchmarks, load_results, main)

REPO_BENCH_DIR = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "benchmarks"))


def test_discovers_the_suite():
    benchmarks = discover_benchmarks(REPO_BENCH_DIR)
    names = [name for name, _ in benchmarks]
    assert len(names) >= 10
    assert "table3_overhead" in names
    assert all(path.endswith(".py") for _, path in benchmarks)
    assert default_bench_dir()  # resolvable from the repo checkout


def _payload(name, elapsed=10.0, samples=5000, overhead=1.0, passed=True,
             clamp=None):
    return {
        "benchmark": name,
        "file": "bench_%s.py" % name,
        "quick": clamp is not None,
        "max_instructions_clamp": clamp,
        "passed": passed,
        "tests": [{"id": "bench_%s.py::test" % name,
                   "outcome": "passed" if passed else "failed",
                   "duration_s": elapsed}],
        "metrics": {
            "elapsed_s": elapsed,
            "tests": 1,
            "sessions": 4,
            "instructions": 200_000,
            "cycles": 400_000,
            "samples": samples,
            "overhead_pct_mean": overhead,
        },
    }


def _write_results(dirpath, payloads):
    os.makedirs(dirpath, exist_ok=True)
    for payload in payloads:
        path = os.path.join(dirpath,
                            "BENCH_%s.json" % payload["benchmark"])
        with open(path, "w") as handle:
            json.dump(payload, handle)
    return dirpath


@pytest.fixture
def result_dirs(tmp_path):
    old = [_payload("alpha"), _payload("beta", elapsed=5.0, overhead=2.0)]
    new = copy.deepcopy(old)
    _write_results(str(tmp_path / "old"), old)
    return tmp_path, old, new


def test_compare_identical_runs_is_clean(result_dirs):
    tmp_path, _, new = result_dirs
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert comparison.ok
    assert not comparison.regressions


def test_compare_flags_injected_time_regression(result_dirs):
    tmp_path, _, new = result_dirs
    new[0]["metrics"]["elapsed_s"] = 30.0  # 3x the old 10s
    _write_results(str(tmp_path / "new"), new)
    exit_code = main(["compare", str(tmp_path / "old"),
                      str(tmp_path / "new")])
    assert exit_code == 1
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert any("elapsed_s" in r for r in comparison.regressions)


def test_compare_flags_new_failure(result_dirs):
    tmp_path, _, new = result_dirs
    new[1]["passed"] = False
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert any("fails now" in r for r in comparison.regressions)


def test_compare_flags_overhead_regression(result_dirs):
    tmp_path, _, new = result_dirs
    new[1]["metrics"]["overhead_pct_mean"] = 9.0  # was 2.0
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert any("overhead" in r for r in comparison.regressions)


def test_compare_flags_sample_drift_same_setup(result_dirs):
    tmp_path, _, new = result_dirs
    new[0]["metrics"]["samples"] = 6000  # 20% drift, same clamp
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert any("drift" in r for r in comparison.regressions)


def test_compare_ignores_sample_drift_across_different_clamps(result_dirs):
    tmp_path, _, new = result_dirs
    new[0] = _payload("alpha", samples=500, clamp=50_000)
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert not any("drift" in r for r in comparison.regressions)


def test_compare_notes_added_and_missing_benchmarks(result_dirs):
    tmp_path, _, new = result_dirs
    new = [new[0], _payload("gamma")]
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert comparison.ok  # appearance/disappearance is not a regression
    assert any("missing" in n for n in comparison.notes)
    assert any("new benchmark" in n for n in comparison.notes)


def test_compare_cli_errors_on_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty), str(empty)]) == 2


def test_compare_notes_one_sided_keys_and_still_gates_shared_ones(
        result_dirs):
    """A block or metric carried by one side only is a note; every
    key both sides carry is still compared."""
    tmp_path, old, new = result_dirs
    old[0]["retired_field"] = 3
    new[0]["fleet"] = {"samples_ingested": 123}
    new[0]["metrics"]["new_metric"] = 1.0
    new[0]["metrics"]["samples"] = 6000  # 20% drift, same clamp
    _write_results(str(tmp_path / "old"), old)
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert sorted(comparison.notes) == [
        "alpha: fleet only in the new results",
        "alpha: metrics.new_metric only in the new results",
        "alpha: retired_field only in the baseline",
    ]
    assert comparison.regressions == [
        "alpha: samples 5000 -> 6000 (drift 20.0% > 1.0%)"]


@pytest.mark.parametrize("key", ["instructions", "cycles"])
def test_compare_flags_deterministic_drift_same_setup(result_dirs, key):
    tmp_path, old, new = result_dirs
    before = old[0]["metrics"][key]
    new[0]["metrics"][key] = before + before // 10
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert comparison.regressions == [
        "alpha: %s %d -> %d (drift 10.0%% > 1.0%%)"
        % (key, before, before + before // 10)]


@pytest.mark.parametrize("block, key, label", [
    ("obs", "driver.hash.evictions", "hash evictions"),
    ("fleet", "samples_ingested", "fleet samples ingested"),
    ("opt", "accepted", "opt rewrites accepted"),
    ("resilience", "ship_retries", "resilience ship retries"),
], ids=["obs", "fleet", "opt", "resilience"])
def test_compare_warns_on_block_drift(result_dirs, block, key, label):
    tmp_path, old, new = result_dirs
    old[0][block] = {key: 100, "unrelated": 900}
    new[0][block] = {key: 120, "unrelated": 900}
    _write_results(str(tmp_path / "old"), old)
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert comparison.ok  # drift warns, never fails the build
    assert comparison.warnings == ["alpha: %s drifted 100 -> 120" % label]


def test_compare_flags_throughput_regression(result_dirs):
    tmp_path, old, new = result_dirs
    for payload in (old[0], new[0]):
        payload["fastpath"] = True
    old[0]["metrics"]["instructions_per_sec"] = 500_000.0
    new[0]["metrics"]["instructions_per_sec"] = 350_000.0  # -30%
    _write_results(str(tmp_path / "old"), old)
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert any("instructions/sec" in r for r in comparison.regressions)
    # A drop within the threshold passes.
    new[0]["metrics"]["instructions_per_sec"] = 460_000.0  # -8%
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert comparison.ok


def test_compare_skips_throughput_across_fastpath_settings(result_dirs):
    tmp_path, old, new = result_dirs
    old[0]["fastpath"] = True
    new[0]["fastpath"] = False
    old[0]["metrics"]["instructions_per_sec"] = 500_000.0
    new[0]["metrics"]["instructions_per_sec"] = 300_000.0
    _write_results(str(tmp_path / "old"), old)
    _write_results(str(tmp_path / "new"), new)
    comparison = compare_results(load_results(str(tmp_path / "old")),
                                 load_results(str(tmp_path / "new")))
    assert not any("instructions/sec" in r
                   for r in comparison.regressions)


def test_run_single_benchmark_end_to_end(tmp_path):
    """dcpibench really runs a benchmark, emits the documented JSON,
    and the result compares cleanly with the committed baseline."""
    results_dir = str(tmp_path / "results")
    exit_code = main(["--quick", "--workers", "1", "table5_space",
                      "--results-dir", results_dir,
                      "--bench-dir", REPO_BENCH_DIR])
    assert exit_code == 0
    path = os.path.join(results_dir, "BENCH_table5_space.json")
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["passed"] is True
    assert payload["quick"] is True
    assert payload["benchmark"] == "table5_space"
    assert payload["metrics"]["samples"] > 0
    assert payload["metrics"]["elapsed_s"] > 0
    assert payload["runner"]["returncode"] == 0
    assert payload["tests"] and all(
        t["outcome"] == "passed" for t in payload["tests"])
    # The human-readable rendering still lands next to the JSON.
    assert payload["text_results"] == ["table5_space.txt"]
    assert os.path.exists(os.path.join(results_dir, "table5_space.txt"))

    # The committed baseline (same --quick clamp) must stay comparable
    # with a fresh result: same keys, same deterministic counts, and
    # no drift or lost assertion.  Wall-clock rules are left out:
    # they depend on the machine, not on the code.
    with open(os.path.join(REPO_BENCH_DIR, "baselines",
                           "BENCH_table5_space.json")) as handle:
        baseline = json.load(handle)
    assert set(payload) == set(baseline)
    assert set(payload["metrics"]) == set(baseline["metrics"])
    for key in ("samples", "instructions", "cycles"):
        assert payload["metrics"][key] == baseline["metrics"][key], key
    comparison = compare_results({"table5_space": baseline},
                                 {"table5_space": payload})
    assert not comparison.notes
    assert not [r for r in comparison.regressions
                if "drift" in r or "fails now" in r]
