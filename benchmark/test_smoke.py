"""Smoke tests of the benchmark itself, at tiny size (n=600, ranks 1..40, 1 epoch).

Run from the repository root:

    python3 -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import SpanRecorder  # noqa: E402
from workloads import halt_reason  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_subtracts_children_and_patches_are_undone():
    import rankwin.engine as engine

    original = engine.make_window
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: sum(range(1000)), None)
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)], None)
    with recorder.patched():
        assert engine.make_window is not original
        outer()
    assert engine.make_window is original
    s = recorder.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert s["inner"]["self_s"] == pytest.approx(s["inner"]["s"])


@pytest.mark.parametrize("start, estimates, reason", [
    (10, [12, 12], "fixed_point"),
    (10, [10], "fixed_point"),
    (10, [12, 10], "two_cycle"),
    (10, [11, 12, 13], "max_iter"),
])
def test_halt_reason(start, estimates, reason):
    assert halt_reason(start, estimates) == reason
