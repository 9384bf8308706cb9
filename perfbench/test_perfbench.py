"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.  They
use the real workload generators with the tick count cut short.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import repetition  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from coagent import coefficiency, scenarios  # noqa: E402
from coagent.bdi.expressions import Expr  # noqa: E402
from coagent.scenarios import build_scenario  # noqa: E402
from coagent.loader import parse_scenario  # noqa: E402


def short_doc(workload: str = "demand-churn", seed: int = 1, ticks: int = 8) -> dict:
    doc = gen.document(workload, seed)
    doc["ticks"] = ticks
    return doc


def patched_attributes() -> dict:
    owners = {
        "scenarios": scenarios,
        "coefficiency": coefficiency,
        "SimulationState": scenarios.SimulationState,
        "ScenarioEnvironment": scenarios.ScenarioEnvironment,
        "Expr": Expr,
    }
    return {
        (label, attr): value
        for label, owner in owners.items()
        for attr, value in vars(owner).items()
        if callable(value)
    }


def test_generator_gives_identical_bytes_across_processes():
    outputs = {
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "capacity-storm", "7"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("0", "1")
    }
    assert len(outputs) == 1
    assert outputs.pop().rstrip("\n") == gen.document_text("capacity-storm", 7)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_documents_parse_place_every_service_and_follow_the_seed(workload):
    config = parse_scenario(gen.document(workload, 3))
    assert config.services and all(s.initial_server for s in config.services)
    assert gen.document_text(workload, 3) == gen.document_text(workload, 3)
    assert gen.document_text(workload, 3) != gen.document_text(workload, 4)


def test_workloads_match_benchmark_json():
    listed = [workload["name"] for workload in run.benchmark_spec()["workloads"]]
    assert listed == list(gen.WORKLOADS)


def test_traced_run_restores_wrappers_and_matches_untraced_digest():
    doc = short_doc()
    before = patched_attributes()
    traced = repetition.traced(doc)
    assert patched_attributes() == before
    assert traced["errors"] == []
    ticked = repetition.untraced(doc, "ticks", extra_setups=0)
    single = repetition.untraced(doc, "single", extra_setups=0)
    assert traced["digest"] == ticked["digest"] == single["digest"]
    assert traced["stats"] == ticked["stats"] == single["stats"]
    names = {metric["name"] for metric in run.benchmark_spec()["per_layer"]}
    assert names - set(traced["layers"]) == {"trace.overhead"}


def test_ticks_repetition_pairs_every_host_time_with_a_calibration_sample():
    result = repetition.untraced(short_doc(), "ticks", extra_setups=1)
    assert len(result["tick_cal_s"]) == len(result["tick_s"]) == 8
    assert len(result["setup_cal_s"]) == len(result["setup_s"]) == 2
    assert all(sample > 0 for sample in [*result["tick_cal_s"], *result["setup_cal_s"]])
    assert result["emit_cal_s"] > 0


def test_scaling_divides_out_the_host_speed():
    slow = run.REFERENCE_CALIBRATION_S * 1.5
    assert run._scaled(0.03, slow) == pytest.approx(0.02)
    assert run._scaled(0.02, run.REFERENCE_CALIBRATION_S) == pytest.approx(0.02)


def test_accounting_fails_when_the_selector_is_wrapped_after_build():
    state = build_scenario(parse_scenario(short_doc()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = repetition.traced_simulation(tracer, state)
    finally:
        tracer.restore()
    assert any(error.startswith("select_event_coefficient calls") for error in result["errors"])


def test_output_check_rejects_a_trace_perturbed_in_one_cell():
    state = build_scenario(parse_scenario(short_doc()))
    scenarios.run_simulation(state, state.config.ticks, state.config.seed)
    trace_csv, _ = repetition.emit(state)
    rows = list(csv.reader(io.StringIO(trace_csv)))
    rows[3][2] = str(int(rows[3][2]) + 1)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    reference = {"digest": repetition.digest(trace_csv), "stats": {}}
    perturbed = {"digest": repetition.digest(buffer.getvalue()), "stats": {}}
    assert run.output_mismatches(dict(reference), reference) == []
    assert run.output_mismatches(perturbed, reference)


def test_runs_failed_counts_a_raising_repetition():
    doc = short_doc(ticks=3)
    bench = run.Run("demand-churn", 1, doc_text=json.dumps(doc))
    bench.attempt("single", timeout=60)
    doc["servers"][0]["capacity"] = 0  # parse_scenario raises ConfigError
    bench.doc_text = json.dumps(doc)
    bench.attempt("ticks", timeout=60)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "ConfigError" in bench.failures[0]
    assert run.end_to_end(bench)["runs_failed"][0] == 0.5


def test_short_run_reports_every_end_to_end_metric(capsys):
    bench = run.Run("demand-churn", 1, doc_text=json.dumps(short_doc()))
    run.measure(bench, seconds=0.1, trace=False)
    result = run.report(bench, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    names = [metric["name"] for metric in run.benchmark_spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "runs_failed" in capsys.readouterr().out


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quiet-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
