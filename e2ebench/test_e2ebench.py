"""The benchmark's own tests: determinism and the no-sources exit.

    python3 -m pytest -q e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def one_setup(monkeypatch):
    """Shrink every workload to one set-up so the tests stay quick."""
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workload, setups=1)
        )


def _trail(outcome):
    """Everything that must repeat exactly for one seed."""
    return [
        (
            r.op.kind,
            r.op.query,
            r.op.sql,
            r.op.writes,
            r.sim_seconds,
            r.transfer_bytes,
            {key: r.layers.get(key, 0.0) for key in bench.COUNTS},
        )
        for r in outcome.records
    ]


@pytest.mark.parametrize("name", ["adhoc-planning", "prepared-fresh"])
def test_same_seed_repeats_exactly(one_setup, name):
    first = bench.run(name, seed=11, seconds=1.0, trace=True)
    second = bench.run(name, seed=11, seconds=1.0, trace=True)
    assert first.result["failed"] == 0, first.problems
    assert any(r.traced for r in first.records)
    assert _trail(first) == _trail(second)
    for key in bench.COUNTS:
        assert (
            first.result["metrics"][key] == second.result["metrics"][key]
        ), key


@pytest.mark.parametrize("name", ["adhoc-planning", "prepared-fresh"])
def test_other_seed_changes_parameters_not_mix(one_setup, name):
    first = bench.run(name, seed=11, seconds=1.0, trace=False)
    other = bench.run(name, seed=12, seconds=1.0, trace=False)
    assert other.result["failed"] == 0, other.problems
    mix = [(r.op.kind, r.op.query, r.op.round) for r in first.records]
    assert mix == [(r.op.kind, r.op.query, r.op.round) for r in other.records]
    assert [(r.op.sql, r.op.writes) for r in first.records] != [
        (r.op.sql, r.op.writes) for r in other.records
    ]


def test_end_to_end_metrics_are_complete(one_setup):
    result = bench.run("adhoc-planning", seed=3, seconds=1.0, trace=False).result
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    """Outside a checkout (no ``src/``) the command exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / HERE.name)
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "adhoc-planning", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
