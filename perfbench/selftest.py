"""Tests of the benchmark itself, on small stand-ins for its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fastive.cli  # noqa: E402
import fastive.extractor  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tiny-extract": workloads.ExtractWorkload(
        num_mics=2, duration_s=1.0, scenes=(0, 1), rt60=0.1),
    "tiny-grid": workloads.GridWorkload(
        trials=1, num_sources=(2,), num_mics=(2,), priors=("t",), rt60=0.1,
        duration_s=1.0),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, wl in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    lines, result = _run(capsys, "--workload", workload, "--seed", "3",
                         "--seconds", "0.5", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    expected = {k: u for k, u in table.items() if k not in run.UNGATED}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in table.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name
    assert any(line.startswith("machine {") for line in lines)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    gated = {k: u for k, u in run.END_TO_END.items() if k not in run.UNGATED}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


COUNTS = ("extractor.iterations", "metrics.decompose_calls", "priors.calls",
          "cli.trial_errors")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_exactly_for_one_seed(tmp_path, workload):
    wl = TINY[workload]
    first, _, _, _, same1 = workloads.trace_run(wl, 5, tmp_path)
    second, _, _, _, same2 = workloads.trace_run(wl, 5, tmp_path)
    assert same1 and same2
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["extractor.iterations"] > 0
    assert first["priors.calls"] > 0 and first["metrics.decompose_calls"] > 0


def test_seed_changes_the_generated_inputs():
    wl = TINY["tiny-extract"]
    a, b, c = (workloads.make_inputs(wl, s) for s in (1, 1, 2))
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x.mixture.samples, y.mixture.samples)
        assert not np.array_equal(x.mixture.samples, z.mixture.samples)
    grid = TINY["tiny-grid"]
    assert workloads.grid_config(grid, 1) == workloads.grid_config(grid, 1)
    assert workloads.grid_config(grid, 1) != workloads.grid_config(grid, 2)


def test_bad_outputs_count_as_failed_not_as_a_crash(monkeypatch, tmp_path):
    original = fastive.extractor.extract

    def nan_extract(*args, **kwargs):
        result = original(*args, **kwargs)
        result.audio.samples[0, 0] = np.nan
        return result

    monkeypatch.setattr(fastive.extractor, "extract", nan_extract)
    summary = workloads.measure_extract(TINY["tiny-extract"], 1, 0.0)
    assert summary["failed"] == summary["attempted"] == 2
    assert "extract_ms" not in summary

    monkeypatch.setattr(fastive.cli, "extract", nan_extract)
    summary = workloads.measure_grid(TINY["tiny-grid"], 1, 0.0, tmp_path)
    assert summary["failed"] == summary["attempted"] == 1


def test_self_time_subtracts_children_and_tracer_restores_targets():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    before = [getattr(m, a) for m, a, _, _ in tracing.TARGETS]
    plain = fastive.cli.extract
    with tracing.Tracer() as tracer:
        assert fastive.cli.extract is not plain
    assert [getattr(m, a) for m, a, _, _ in tracing.TARGETS] == before
    assert tracer.spans == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-m6-3s",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
