"""The benchmark's own tests: tiny runs, negative checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import inputs  # noqa: E402
import repro  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("snapshot", "steps", "analysis")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "steps":
        # Four restarts per file of fifty steps; their crash-copy checks
        # fail until the r+ footer overwrite is fixed (README, "Kept failure").
        assert result["attempted"] % 50 == 0
        assert result["failed"] in (0, result["attempted"] * 4 // 50)
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run_bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_per_layer_table_matches_benchmark_json():
    assert list(tracing.PER_LAYER_UNITS) == [m["name"] for m in SPEC["per_layer"]]


def test_run_without_program_sources_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "snapshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# -- negative tests: each check fails on a corrupted output -------------------

@pytest.fixture()
def small():
    return inputs.snapshot(5, (8, 8, 8))


def write_file(path, fields):
    with repro.open(str(path), "w", nranks=2) as f:
        for name, data in fields.items():
            f.create_dataset(name, data=data, error_bound=inputs.BOUNDS[name])
    engine = repro.hdf5.File(str(path), "r")
    try:
        return {name: checks.stored_digest(engine, name) for name in fields}
    finally:
        engine.close()


def test_decode_beyond_bound_fails(small):
    assert checks.check_fields(small, small, inputs.BOUNDS)[0] is None
    name = "temperature"
    perturbed = dict(small)
    bad = small[name].copy()
    bad.flat[7] += np.float32(1.01 * inputs.BOUNDS[name])
    perturbed[name] = bad
    why, _ = checks.check_fields(small, perturbed, inputs.BOUNDS)
    assert why is not None and why.startswith(name)


def test_half_ulp_slack_is_all_the_check_allows():
    orig = np.array([1.0e7], dtype=np.float32)  # float32 spacing here is 1.0
    next_up = np.nextafter(orig, np.float32(np.inf))
    assert checks.bound_violation(orig, next_up, 0.6) is None  # 1.0 <= 0.6 + 0.5
    assert checks.bound_violation(orig, next_up, 0.4) is not None  # 1.0 > 0.4 + 0.5


def test_decode_check_of_truncated_file_fails(tmp_path, small):
    path = tmp_path / "t.phd5"
    write_file(path, small)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size // 2)
    why, _ = checks.decode_check(repro, str(path), {n: n for n in small}, small,
                                 inputs.BOUNDS)
    assert why is not None


def test_committed_check_of_truncated_file_fails(tmp_path, small):
    path = tmp_path / "t.phd5"
    expected = write_file(path, small)
    assert checks.committed_check(repro, str(path), expected) is None
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 100)
    assert checks.committed_check(repro, str(path), expected) is not None


def test_committed_check_of_overwritten_footer_fails(tmp_path, small):
    # What reopening with "r+" does today: the next allocation starts at
    # the committed footer, and the header still points there.
    path = tmp_path / "t.phd5"
    expected = write_file(path, small)
    with open(path, "r+b") as f:
        _, _, footer_ptr, _ = struct.unpack("<4sHxxQQ", f.read(24))
        f.seek(footer_ptr)
        f.write(bytes(range(128, 256)))
    why = checks.committed_check(repro, str(path), expected)
    assert why is not None and why.startswith("FileFormatError")


def test_stored_stream_change_is_detected(tmp_path, small):
    path = tmp_path / "t.phd5"
    expected = write_file(path, small)
    expected["velocity_x"] = expected["velocity_y"]
    assert "velocity_x" in checks.committed_check(repro, str(path), expected)


def test_storage_ratio_and_psnr_are_recomputed(tmp_path, small):
    path = tmp_path / "t.phd5"
    write_file(path, small)
    nbytes = sum(a.nbytes for a in small.values())
    assert checks.storage_ratio(nbytes, [str(path)]) == nbytes / os.path.getsize(path)
    a = np.linspace(0.0, 1.0, 101)
    assert checks.psnr_db(a, a + 0.01) == pytest.approx(40.0)


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_same_thread_children_only():
    S = tracing.Span
    parent = S(1, "p", 0.0, None, "main", 0, end=10.0)
    child = S(2, "c", 2.0, 1, "main", 0, end=5.0)
    other = S(3, "r", 1.0, 1, "rank-0", 0, end=9.0)
    selfs = tracing.self_times([parent, child, other])
    assert selfs == {1: 7.0, 2: 3.0, 3: 8.0}


def test_inputs_follow_the_seed():
    a = inputs.snapshot(9, (8, 8, 8))
    b = inputs.snapshot(9, (8, 8, 8))
    c = inputs.snapshot(10, (8, 8, 8))
    assert inputs.digest(a.values()) == inputs.digest(b.values())
    assert inputs.digest(a.values()) != inputs.digest(c.values())


def test_driver_and_flush_self_time_from_synthetic_spans():
    S = tracing.Span
    spans = [
        S(1, "api.close", 0.0, None, "main", 0, end=10.0),
        S(2, "api.flush", 0.5, 1, "main", 0, end=9.0),
        S(3, "exec.map_ranks", 1.0, 2, "main", 0, end=8.0),
        S(4, "core.driver", 1.5, 3, "rank-0", 0, end=6.0),
        S(5, "core.driver", 1.0, 3, "rank-1", 0, end=7.5),
        S(6, "hdf5.write", 2.0, 4, "rank-0", None, end=3.0),  # outside any op
    ]
    m = tracing.layer_metrics(spans, n_ops=1, extra={})
    assert m["core.driver_s"] == 6.5  # the slowest rank
    assert m["exec.fanout_s"] == 0.5  # map_ranks beyond the slowest rank
    assert m["api.flush_self_s"] == 10.0 - 6.5  # outermost span minus driver union
    assert m["hdf5.write_s"] == 0.0
