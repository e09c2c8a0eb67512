"""Tests of the benchmark harness itself, at toy sizes (n=50, 4 cells,
10^4 paths)."""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
from brownian_transport import acceptance, pipeline  # noqa: E402
from brownian_transport.errors import ConsistencyError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_result(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _units(kind)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "0", "--trace", "0", "--toy"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    _check_result(result, "end_to_end")
    # at 10^4 paths the sampled and walk KS sit near or above their
    # budgets, so ok_ratio may read 0 on montecarlo-checks here
    for name, value in result["metrics"].items():
        assert value["value"] > 0 or name == "ok_ratio"
    assert result["attempted"] == 1


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result, _ = bench.trace_run(workload, 0, bench.TOY, log=lambda m: None)
    _check_result(result, "per_layer")
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert coverage == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_digest_flips_bitident_without_failing_ops(corrupt):
    # references taken from this tree, so the test does not depend on the
    # stored digests still matching
    _, observed = bench.trace_run("pipeline-n200", 0, bench.TOY, refs={},
                                  log=lambda m: None)
    refs = {label: digest for label, _, digest in observed}
    label = f"pipeline n={bench.TOY.mesh_n}"
    if corrupt:
        refs[label] = "0" * 16
    messages = []
    result, _ = bench.trace_run("pipeline-n200", 0, bench.TOY, refs=refs,
                                log=messages.append)
    assert result["metrics"]["solver.bitident"]["value"] == int(not corrupt)
    assert result["metrics"]["cli.files_identical"]["value"] == 1
    assert result["failed"] == 0 and result["correct"]
    assert any(label in m for m in messages) == corrupt


def _failing_criterion(ctx):
    return acceptance.CriterionResult(2, "forced", False, "forced failure")


def _raising_pipeline(cfg):
    raise ConsistencyError("forced failure")


@pytest.mark.parametrize("workload, module, attr, fake", [
    ("oracle-small", acceptance, "criterion_2", _failing_criterion),
    ("pipeline-n200", pipeline, "run_pipeline", _raising_pipeline),
])
def test_failing_check_is_counted(monkeypatch, workload, module, attr, fake):
    state = bench.setup(workload, 0, bench.TOY)
    monkeypatch.setattr(module, attr, fake)
    messages = []
    result = bench.measure(workload, state, 0, 0.0, [1.0], bench.TOY,
                           log=messages.append)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert "failed_ratio = 1/1" in messages
