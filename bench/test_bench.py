"""Self-test of the benchmark at smoke scale: ``pytest bench -q``.

Runs every workload once untraced and once traced, in fresh processes as
BENCHMARK.json's command does, and checks the declared metric set, output
correctness, bit-neutral tracing and seed sensitivity.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(section: str) -> set[str]:
    return {m["name"] for m in _spec()[section]}


@pytest.fixture(scope="session")
def bench_run():
    """Run ``bench/run.py`` at smoke scale once per argument set."""
    cache: dict[tuple, tuple[dict, str]] = {}

    def run(workload: str, trace: int = 0, seed: int = 0) -> tuple[dict, str]:
        key = (workload, trace, seed)
        if key not in cache:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--scale", "smoke", "--seconds", "0", "--trace", str(trace),
                 "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            lines = proc.stdout.strip().splitlines()
            assert proc.returncode == 0, proc.stderr[-3000:]
            digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
            cache[key] = (json.loads(lines[-1]), digest)
        return cache[key]

    return run


def test_benchmark_json_is_well_formed():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in spec[s]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(bench_run, workload):
    result, _ = bench_run(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_is_bit_neutral(bench_run, workload):
    traced, traced_digest = bench_run(workload, trace=1)
    _, digest = bench_run(workload)
    assert traced["correct"]
    assert set(traced["metrics"]) == _names("per_layer")
    assert traced_digest == digest
    assert traced["metrics"]["trace.overhead"]["value"] > 0


@pytest.mark.parametrize(
    "workload", [name for name, cls in workloads.WORKLOADS.items() if cls.seeded]
)
def test_another_seed_changes_the_digest(bench_run, workload):
    _, digest = bench_run(workload)
    _, other = bench_run(workload, seed=1)
    assert other != digest


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "day_replay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
