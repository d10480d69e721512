"""Smoke check: the runner still runs every workload end to end.

Tiny inputs (--scale smoke), no timing gate. pytest-benchmark only
records how long each smoke run took. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUNNER = HERE.parent / "run.py"
sys.path.insert(0, str(HERE.parent))
import metrics  # noqa: E402


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_workload_runs(benchmark, workload, trace):
    done = benchmark.pedantic(_run, args=(workload, trace), rounds=1, iterations=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name][0]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.spans"] > 0
    assert values["trace.self_time_sum_s"] == pytest.approx(values["trace.traced_wall_s"], rel=1e-3)
    if workload == "predict-stream":
        fits = [v for name, v in values.items()
                if name.startswith("linmodel.fit_") or name.startswith("vectorize.select_l1")]
        assert fits and not any(fits)
        assert values["pipeline.predict_one_p99_ms"] >= values["pipeline.predict_one_p50_ms"] > 0
    else:
        assert values["vectorize.select_l1_s"] > 0


def test_missing_package_exits_nonzero(tmp_path):
    """Outside a checkout the runner fails without printing a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent.parent / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
