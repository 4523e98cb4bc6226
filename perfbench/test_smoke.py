"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced on tiny codes, and checks that
each metric named in BENCHMARK.json is reported with its unit, that
every output check passes, and that both runs give the same digest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_source_tree()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.per_layer_spec()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_tiny(workload, tmp_path):
    untraced = run.run(workload, 5, 0.3, False, tmp_path, tiny=True)
    traced = run.run(workload, 5, 0.3, True, tmp_path, tiny=True)
    for record, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        result = record["result"]
        assert record["problems"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[group]}
        assert (tmp_path / f"{workload}-seed5-trace{record['trace']}.json").is_file()
    assert untraced["digest"] == traced["digest"]

    e2e = untraced["all_metrics"]
    assert e2e["error_rate"]["value"] == 0
    for name in run.GATED:
        assert e2e[name]["value"] > 0
    kinds = {"archive-gf256": ("read",), "rebuild-fermat": ("repair", "read", "pread"),
             "churn-cli": ("repair", "pread")}[workload]
    for kind in kinds:
        for suffix in ("MBps", "p50_ms", "p90_ms"):
            assert e2e[f"{kind}_{suffix}"]["value"] > 0
    if "pread" in kinds:
        assert e2e["pread_bw_ratio"]["value"] == 1.0
    assert ("mul_per_byte" in e2e) == (workload != "churn-cli")

    layer = traced["result"]["metrics"]
    assert layer["trace.overhead_ratio"]["value"] > 0
    assert (layer["fragio.read_fragment.calls"]["value"] > 0) == (workload == "churn-cli")
    assert (layer["cli.main.calls"]["value"] > 0) == (workload == "churn-cli")
    assert layer["gf.matmul.calls"]["value"] > 0
    if workload == "rebuild-fermat":
        k = workloads.RebuildFermat.TINY["nkd"][1]
        assert layer["matrix.solves_per_pread"]["value"] == k + 1
    assert (tmp_path / f"{workload}-spans.npz").is_file()


def test_fails_without_source(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run must fail
    without printing a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "archive-gf256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
