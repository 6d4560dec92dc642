"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

They run the benchmark as the command line does, so they take a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import workloads  # noqa: E402

WORKLOADS = workloads(str(ROOT / "src"), str(ROOT))

COUNT_SUFFIXES = (".calls", ".yielded", ".evals", ".cells", ".rows")
COUNT_NAMES = ("cli.numpy_imported", "cli.modules_imported", "trace.ops", "trace.spans")


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_inputs(name):
    make = WORKLOADS[name].make_pool
    assert make(run.seeded_rng(name, 1)) == make(run.seeded_rng(name, 1))
    assert make(run.seeded_rng(name, 1)) != make(run.seeded_rng(name, 2))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name):
    runs = [_result(_bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")) for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == set(run.per_layer_units())
    counts = [
        key for key in runs[0]["metrics"]
        if key.endswith(COUNT_SUFFIXES) or key in COUNT_NAMES
    ]
    assert any(runs[0]["metrics"][key]["value"] for key in counts)
    for key in counts:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key


def test_untraced_run_reports_end_to_end_metrics():
    r = _result(_bench("--workload", "decide-sweep", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert r["correct"] and r["attempted"] >= run.MIN_OPS
    assert set(r["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "decide-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
