"""Self-tests of the benchmark, on tiny workload sizes.

    python3 -m pytest perfbench -q
"""

import glob
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import specs  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.1", "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    digests = dict(line.split()[1:3] for line in lines
                   if line.startswith("det "))
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", sorted(specs.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, _ = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end")


def test_traced_run_prints_every_layer_metric_and_same_stats():
    _, untraced_digests = _bench("timesharing-disk", 0)
    traced, traced_digests = _bench("timesharing-disk", 1)
    assert traced["correct"]
    printed = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert printed == _declared("per_layer")
    # Session seeds both processes ran: same statistics, bit for bit.
    assert len(traced_digests) >= run.TRACE_PAIRS
    for seed, digest in traced_digests.items():
        assert untraced_digests[seed] == digest


def _flip_byte(db_root):
    path = sorted(glob.glob(os.path.join(db_root, "epoch*", "*.prof")))[0]
    with open(path, "r+b") as handle:
        handle.seek(12)
        byte = handle.read(1)
        handle.seek(12)
        handle.write(bytes([byte[0] ^ 0x40]))


def test_flipped_profile_byte_counts_as_a_failed_operation(tmp_path):
    clean = run.run_iteration("gcc-calc", "tiny", 5, str(tmp_path / "a"))
    assert clean["failed"] == 0, clean["errors"]
    hit = run.run_iteration("gcc-calc", "tiny", 5, str(tmp_path / "b"),
                            tamper=_flip_byte)
    assert hit["attempted"] == clean["attempted"]
    assert hit["failed"] >= 1
    assert any("read-back check" in error for error in hit["errors"])
